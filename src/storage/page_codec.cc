#include "storage/page_codec.h"

#include <algorithm>

#include "common/macros.h"
#include "storage/codec.h"

namespace onion::storage {
namespace {

void PutVarint64(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Advances *p past one varint; false on truncation or a value that would
/// not fit in 64 bits.
bool GetVarint64(const uint8_t** p, const uint8_t* end, uint64_t* v) {
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*p == end) return false;
    const uint8_t byte = *(*p)++;
    // The 10th byte carries bits 63.. only; more than one payload bit there
    // means the value overflows a u64.
    if (shift == 63 && byte > 1) return false;
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = value;
      return true;
    }
  }
  return false;
}

// ---- kBitpack helpers --------------------------------------------------

/// Bits needed to represent v (0 for v == 0).
int BitWidth(uint64_t v) {
  int width = 0;
  while (v != 0) {
    ++width;
    v >>= 1;
  }
  return width;
}

/// LSB-first bit packer; values must already fit `width` bits.
class BitWriter {
 public:
  explicit BitWriter(std::vector<uint8_t>* out) : out_(out) {}

  void Put(uint64_t v, int width) {
    int filled = 0;
    while (filled < width) {
      const int take = std::min(8 - used_, width - filled);
      cur_ |= static_cast<uint8_t>(((v >> filled) & ((1u << take) - 1))
                                   << used_);
      used_ += take;
      filled += take;
      if (used_ == 8) {
        out_->push_back(cur_);
        cur_ = 0;
        used_ = 0;
      }
    }
  }

  /// Pads the current byte with zeros — column streams are byte-aligned
  /// so their lengths are computable from (count, width) alone.
  void AlignByte() {
    if (used_ != 0) {
      out_->push_back(cur_);
      cur_ = 0;
      used_ = 0;
    }
  }

 private:
  std::vector<uint8_t>* out_;
  uint8_t cur_ = 0;
  int used_ = 0;
};

/// LSB-first reader over [p, end); false on underrun.
class BitReader {
 public:
  BitReader(const uint8_t* p, const uint8_t* end) : p_(p), end_(end) {}

  bool Get(int width, uint64_t* v) {
    uint64_t value = 0;
    int filled = 0;
    while (filled < width) {
      if (p_ == end_) return false;
      const int take = std::min(8 - used_, width - filled);
      value |= static_cast<uint64_t>((*p_ >> used_) & ((1u << take) - 1))
               << filled;
      used_ += take;
      filled += take;
      if (used_ == 8) {
        ++p_;
        used_ = 0;
      }
    }
    *v = value;
    return true;
  }

  void AlignByte() {
    if (used_ != 0) {
      ++p_;
      used_ = 0;
    }
  }

  const uint8_t* pos() const { return p_; }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
  int used_ = 0;
};

/// Bytes of one byte-aligned packed column.
uint64_t PackedColumnBytes(uint64_t count, int width) {
  return (count * static_cast<uint64_t>(width) + 7) / 8;
}

}  // namespace

bool PageCodecValid(uint32_t id) {
  return id == static_cast<uint32_t>(PageCodec::kRaw) ||
         id == static_cast<uint32_t>(PageCodec::kDeltaVarint) ||
         id == static_cast<uint32_t>(PageCodec::kBitpack);
}

const char* PageCodecName(PageCodec codec) {
  switch (codec) {
    case PageCodec::kRaw:
      return "raw";
    case PageCodec::kDeltaVarint:
      return "delta_varint";
    case PageCodec::kBitpack:
      return "bitpack";
  }
  return "unknown";
}

bool ParsePageCodec(const std::string& name, PageCodec* out) {
  if (name == "raw") {
    *out = PageCodec::kRaw;
    return true;
  }
  if (name == "delta_varint") {
    *out = PageCodec::kDeltaVarint;
    return true;
  }
  if (name == "bitpack") {
    *out = PageCodec::kBitpack;
    return true;
  }
  return false;
}

void EncodePage(PageCodec codec, const std::vector<Entry>& entries,
                std::vector<uint8_t>* out) {
  switch (codec) {
    case PageCodec::kRaw: {
      const size_t base = out->size();
      out->resize(base + entries.size() * kEntryBytesV3);
      for (size_t i = 0; i < entries.size(); ++i) {
        uint8_t* at = out->data() + base + i * kEntryBytesV3;
        PutU64(at, entries[i].key);
        PutU64(at + 8, entries[i].payload);
        PutU64(at + 16, entries[i].seq);
      }
      return;
    }
    case PageCodec::kDeltaVarint: {
      Key prev = 0;
      for (size_t i = 0; i < entries.size(); ++i) {
        if (i == 0) {
          PutVarint64(out, entries[i].key);
        } else {
          ONION_CHECK_MSG(entries[i].key >= prev,
                          "delta codec requires sorted keys");
          PutVarint64(out, entries[i].key - prev);
        }
        PutVarint64(out, entries[i].payload);
        PutVarint64(out, entries[i].seq);
        prev = entries[i].key;
      }
      return;
    }
    case PageCodec::kBitpack: {
      if (entries.empty()) return;
      // Frame of reference per column: minimum as the base, every value as
      // a base-relative delta at the column's exact bit width. Keys are
      // sorted (checked), so their base is the first entry.
      Key key_base = entries.front().key;
      uint64_t payload_base = entries.front().payload;
      uint64_t seq_base = entries.front().seq;
      Key prev = entries.front().key;
      for (const Entry& entry : entries) {
        ONION_CHECK_MSG(entry.key >= prev, "bitpack codec requires sorted keys");
        prev = entry.key;
        payload_base = std::min(payload_base, entry.payload);
        seq_base = std::min(seq_base, entry.seq);
      }
      uint64_t key_span = 0;
      uint64_t payload_span = 0;
      uint64_t seq_span = 0;
      for (const Entry& entry : entries) {
        key_span = std::max(key_span, entry.key - key_base);
        payload_span = std::max(payload_span, entry.payload - payload_base);
        seq_span = std::max(seq_span, entry.seq - seq_base);
      }
      const int key_width = BitWidth(key_span);
      const int payload_width = BitWidth(payload_span);
      const int seq_width = BitWidth(seq_span);
      out->push_back(static_cast<uint8_t>(key_width));
      out->push_back(static_cast<uint8_t>(payload_width));
      out->push_back(static_cast<uint8_t>(seq_width));
      const size_t base_at = out->size();
      out->resize(base_at + 24);
      PutU64(out->data() + base_at, key_base);
      PutU64(out->data() + base_at + 8, payload_base);
      PutU64(out->data() + base_at + 16, seq_base);
      BitWriter writer(out);
      for (const Entry& entry : entries) writer.Put(entry.key - key_base, key_width);
      writer.AlignByte();
      for (const Entry& entry : entries) {
        writer.Put(entry.payload - payload_base, payload_width);
      }
      writer.AlignByte();
      for (const Entry& entry : entries) {
        writer.Put(entry.seq - seq_base, seq_width);
      }
      writer.AlignByte();
      return;
    }
  }
  ONION_CHECK_MSG(false, "unknown page codec");
}

bool DecodePage(PageCodec codec, const uint8_t* data, size_t size,
                uint64_t count, std::vector<Entry>* out) {
  out->clear();
  out->reserve(count);
  switch (codec) {
    case PageCodec::kRaw: {
      if (size != count * kEntryBytesV3) return false;
      for (uint64_t i = 0; i < count; ++i) {
        const uint8_t* at = data + i * kEntryBytesV3;
        out->push_back(Entry{GetU64(at), GetU64(at + 8), GetU64(at + 16)});
      }
      return true;
    }
    case PageCodec::kDeltaVarint: {
      const uint8_t* p = data;
      const uint8_t* const end = data + size;
      Key key = 0;
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t delta = 0;
        uint64_t payload = 0;
        uint64_t seq = 0;
        if (!GetVarint64(&p, end, &delta) || !GetVarint64(&p, end, &payload) ||
            !GetVarint64(&p, end, &seq)) {
          return false;
        }
        if (i == 0) {
          key = delta;
        } else {
          if (delta > ~key) return false;  // key would wrap past 2^64
          key += delta;
        }
        out->push_back(Entry{key, payload, seq});
      }
      return p == end;  // trailing garbage means corruption
    }
    case PageCodec::kBitpack: {
      if (count == 0) return size == 0;
      // Three column widths, then three u64 bases.
      const size_t header = 3 + 24;
      if (size < header) return false;
      const int key_width = data[0];
      const int payload_width = data[1];
      const int seq_width = data[2];
      if (key_width > 64 || payload_width > 64 || seq_width > 64) return false;
      const uint8_t* bases = data + 3;
      const Key key_base = GetU64(bases);
      const uint64_t payload_base = GetU64(bases + 8);
      const uint64_t seq_base = GetU64(bases + 16);
      // Exact-size check: the three byte-aligned streams follow the header
      // back to back; anything else is corruption.
      const uint64_t expect = header + PackedColumnBytes(count, key_width) +
                              PackedColumnBytes(count, payload_width) +
                              PackedColumnBytes(count, seq_width);
      if (size != expect) return false;
      BitReader reader(data + header, data + size);
      std::vector<uint64_t> key_deltas(count);
      for (uint64_t i = 0; i < count; ++i) {
        if (!reader.Get(key_width, &key_deltas[i])) return false;
        if (key_deltas[i] > ~key_base) return false;  // key would wrap 2^64
      }
      reader.AlignByte();
      std::vector<uint64_t> payloads(count);
      for (uint64_t i = 0; i < count; ++i) {
        if (!reader.Get(payload_width, &payloads[i])) return false;
      }
      reader.AlignByte();
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t seq_delta = 0;
        if (!reader.Get(seq_width, &seq_delta)) return false;
        out->push_back(Entry{key_base + key_deltas[i],
                             payload_base + payloads[i], seq_base + seq_delta});
      }
      return true;
    }
  }
  return false;
}

}  // namespace onion::storage
