#include "store/codec.h"

#include <cmath>
#include <cstring>

namespace hetesim {

namespace {

constexpr char kMagic[4] = {'H', 'P', 'S', '1'};
// Refuse absurd shapes from corrupt headers; 2^31 keeps rows * cols
// inside int64.
constexpr int64_t kMaxReasonableDimension = int64_t{1} << 31;
// Signed 32-bit fixed-point scale for the quantized codec.
constexpr double kQuantScale = 2147483647.0;  // 2^31 - 1

void AppendVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

/// LEB128 reader over `[*pos, end)`; rejects truncation and encodings
/// longer than 10 bytes (an u64 never needs more, so an 11th continuation
/// byte is corruption, not a big number).
bool ReadVarint(const char** pos, const char* end, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < end && shift < 70) {
    const uint8_t byte = static_cast<uint8_t>(**pos);
    ++*pos;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

template <typename T>
void AppendRaw(std::string* out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

template <typename T>
bool ReadRaw(const char** pos, const char* end, T* value) {
  if (end - *pos < static_cast<ptrdiff_t>(sizeof(T))) return false;
  std::memcpy(value, *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

Result<StoreCodec> StoreCodecFromString(std::string_view name) {
  if (name == "lossless") return StoreCodec::kLossless;
  if (name == "quantized") return StoreCodec::kQuantized;
  return Status::InvalidArgument("unknown store codec '" + std::string(name) +
                                 "' (expected lossless|quantized)");
}

std::string_view StoreCodecToString(StoreCodec codec) {
  return codec == StoreCodec::kLossless ? "lossless" : "quantized";
}

uint64_t StoreChecksum(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

Status EncodeStoreEntry(const SparseMatrix& matrix, StoreCodec codec,
                        std::string* out) {
  const std::vector<Index>& row_ptr = matrix.row_ptr();
  const std::vector<Index>& col_idx = matrix.col_idx();
  const std::vector<double>& values = matrix.values();

  out->append(kMagic, sizeof(kMagic));
  out->push_back(static_cast<char>(codec));
  AppendVarint(out, static_cast<uint64_t>(matrix.rows()));
  AppendVarint(out, static_cast<uint64_t>(matrix.cols()));
  AppendVarint(out, static_cast<uint64_t>(matrix.NumNonZeros()));
  for (size_t r = 0; r + 1 < row_ptr.size(); ++r) {
    AppendVarint(out, static_cast<uint64_t>(row_ptr[r + 1] - row_ptr[r]));
  }
  // Columns are strictly ascending within a row, so later ids are stored as
  // (delta - 1): dense rows of consecutive columns cost one byte per entry.
  for (size_t r = 0; r + 1 < row_ptr.size(); ++r) {
    for (Index k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const uint64_t col = static_cast<uint64_t>(col_idx[static_cast<size_t>(k)]);
      if (k == row_ptr[r]) {
        AppendVarint(out, col);
      } else {
        const uint64_t prev =
            static_cast<uint64_t>(col_idx[static_cast<size_t>(k) - 1]);
        AppendVarint(out, col - prev - 1);
      }
    }
  }

  if (codec == StoreCodec::kLossless) {
    for (const double v : values) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "refusing to encode non-finite matrix value");
      }
      AppendRaw(out, v);
    }
    return Status::OK();
  }

  double scale = 0.0;
  for (const double v : values) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "refusing to encode non-finite matrix value");
    }
    scale = std::max(scale, std::fabs(v));
  }
  AppendRaw(out, scale);
  for (const double v : values) {
    const int32_t q =
        scale == 0.0
            ? 0
            : static_cast<int32_t>(std::llround(v / scale * kQuantScale));
    AppendRaw(out, q);
  }
  return Status::OK();
}

Result<SparseMatrix> DecodeStoreEntry(std::string_view bytes) {
  const char* pos = bytes.data();
  const char* end = bytes.data() + bytes.size();
  if (bytes.size() < sizeof(kMagic) + 1 ||
      std::memcmp(pos, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an HPS1 store entry");
  }
  pos += sizeof(kMagic);
  const uint8_t codec_byte = static_cast<uint8_t>(*pos++);
  if (codec_byte > static_cast<uint8_t>(StoreCodec::kQuantized)) {
    return Status::InvalidArgument("unknown store entry codec byte");
  }
  const StoreCodec codec = static_cast<StoreCodec>(codec_byte);

  uint64_t rows = 0;
  uint64_t cols = 0;
  uint64_t nnz = 0;
  if (!ReadVarint(&pos, end, &rows) || !ReadVarint(&pos, end, &cols) ||
      !ReadVarint(&pos, end, &nnz)) {
    return Status::InvalidArgument("truncated store entry header");
  }
  if (rows > static_cast<uint64_t>(kMaxReasonableDimension) ||
      cols > static_cast<uint64_t>(kMaxReasonableDimension) ||
      nnz > rows * cols) {
    return Status::InvalidArgument("corrupt store entry header");
  }
  // The payload holds >= 1 byte per row (its varint length) and per entry
  // (column + value, varint-or-wider); a rows or nnz beyond the remaining
  // bytes is corruption and must be rejected BEFORE the reserve calls below
  // can attempt a huge allocation.
  const uint64_t remaining = static_cast<uint64_t>(end - pos);
  if (rows > remaining || nnz > remaining) {
    return Status::InvalidArgument(
        "store entry header claims more rows or entries than the payload "
        "holds");
  }

  std::vector<Index> row_ptr;
  row_ptr.reserve(static_cast<size_t>(rows) + 1);
  row_ptr.push_back(0);
  uint64_t total = 0;
  for (uint64_t r = 0; r < rows; ++r) {
    uint64_t row_nnz = 0;
    if (!ReadVarint(&pos, end, &row_nnz)) {
      return Status::InvalidArgument("truncated store entry row lengths");
    }
    total += row_nnz;
    if (total > nnz) {
      return Status::InvalidArgument("store entry row lengths exceed nnz");
    }
    row_ptr.push_back(static_cast<Index>(total));
  }
  if (total != nnz) {
    return Status::InvalidArgument("store entry row lengths do not sum to nnz");
  }

  std::vector<Index> col_idx;
  col_idx.reserve(static_cast<size_t>(nnz));
  for (uint64_t r = 0; r < rows; ++r) {
    uint64_t col = 0;
    for (Index k = row_ptr[static_cast<size_t>(r)];
         k < row_ptr[static_cast<size_t>(r) + 1]; ++k) {
      uint64_t delta = 0;
      if (!ReadVarint(&pos, end, &delta)) {
        return Status::InvalidArgument("truncated store entry columns");
      }
      col = (k == row_ptr[static_cast<size_t>(r)]) ? delta : col + delta + 1;
      if (col >= cols) {
        return Status::InvalidArgument("store entry column out of range");
      }
      col_idx.push_back(static_cast<Index>(col));
    }
  }

  std::vector<double> values;
  values.reserve(static_cast<size_t>(nnz));
  if (codec == StoreCodec::kLossless) {
    for (uint64_t k = 0; k < nnz; ++k) {
      double v = 0;
      if (!ReadRaw(&pos, end, &v)) {
        return Status::InvalidArgument("truncated store entry values");
      }
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite store entry value");
      }
      values.push_back(v);
    }
  } else {
    double scale = 0;
    if (!ReadRaw(&pos, end, &scale)) {
      return Status::InvalidArgument("truncated store entry values");
    }
    if (!std::isfinite(scale) || scale < 0) {
      return Status::InvalidArgument("corrupt store entry quantization scale");
    }
    for (uint64_t k = 0; k < nnz; ++k) {
      int32_t q = 0;
      if (!ReadRaw(&pos, end, &q)) {
        return Status::InvalidArgument("truncated store entry values");
      }
      // A corrupt scale near the double range overflows q * scale.
      const double v = static_cast<double>(q) * scale / kQuantScale;
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite store entry value");
      }
      values.push_back(v);
    }
  }
  if (pos != end) {
    return Status::InvalidArgument("store entry has trailing bytes");
  }
  return SparseMatrix::FromCsr(static_cast<Index>(rows),
                               static_cast<Index>(cols), std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

}  // namespace hetesim
