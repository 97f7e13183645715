#ifndef CROWDJOIN_COMMON_SERIALIZE_H_
#define CROWDJOIN_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"

namespace crowdjoin {

/// \brief Appends fixed-width little-endian values to a byte buffer.
///
/// The on-disk companion of `BinaryReader`; together they define the wire
/// format used by the campaign checkpoint files. All integers are
/// little-endian regardless of host order, doubles are IEEE-754 bit
/// patterns, and byte strings are length-prefixed (u64). The format has no
/// self-description — reader and writer must agree on the field sequence —
/// so every file embeds a magic + version header plus a trailing checksum
/// (see `Fingerprint64`).
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutLittleEndian(v); }
  void PutU64(uint64_t v) { PutLittleEndian(v); }
  void PutI64(int64_t v) { PutLittleEndian(static_cast<uint64_t>(v)); }
  void PutDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutLittleEndian(bits);
  }
  /// Length-prefixed byte string.
  void PutBytes(std::string_view bytes) {
    PutU64(bytes.size());
    buf_.append(bytes.data(), bytes.size());
  }

  /// The serialized bytes so far.
  const std::string& buffer() const { return buf_; }
  std::string TakeBuffer() { return std::move(buf_); }

 private:
  template <typename T>
  void PutLittleEndian(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string buf_;
};

/// \brief Consumes fixed-width little-endian values from a byte buffer.
///
/// Every read is bounds-checked and returns `Result`; a truncated or
/// corrupted file surfaces as `OutOfRange` instead of undefined behavior.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8() {
    CJ_ASSIGN_OR_RETURN(std::string_view raw, Take(1));
    return static_cast<uint8_t>(raw[0]);
  }
  Result<uint32_t> ReadU32() { return ReadLittleEndian<uint32_t>(); }
  Result<uint64_t> ReadU64() { return ReadLittleEndian<uint64_t>(); }
  Result<int64_t> ReadI64() {
    CJ_ASSIGN_OR_RETURN(uint64_t bits, ReadLittleEndian<uint64_t>());
    return static_cast<int64_t>(bits);
  }
  Result<double> ReadDouble() {
    CJ_ASSIGN_OR_RETURN(uint64_t bits, ReadLittleEndian<uint64_t>());
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  /// Length-prefixed byte string (see `BinaryWriter::PutBytes`).
  Result<std::string> ReadBytes() {
    CJ_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
    if (n > remaining()) {
      return Status::OutOfRange("byte string length exceeds buffer");
    }
    CJ_ASSIGN_OR_RETURN(std::string_view raw, Take(static_cast<size_t>(n)));
    return std::string(raw);
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Result<std::string_view> Take(size_t n) {
    if (n > remaining()) {
      return Status::OutOfRange("truncated buffer: need " + std::to_string(n) +
                                " bytes, have " + std::to_string(remaining()));
    }
    std::string_view raw = data_.substr(pos_, n);
    pos_ += n;
    return raw;
  }

  template <typename T>
  Result<T> ReadLittleEndian() {
    CJ_ASSIGN_OR_RETURN(std::string_view raw, Take(sizeof(T)));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<uint8_t>(raw[i])) << (8 * i);
    }
    return v;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

/// \brief FNV-1a over `data`: the integrity checksum trailing every
/// checkpoint payload, and the config fingerprint guarding resume.
uint64_t Fingerprint64(std::string_view data);

/// \brief Writes `data` to `path` atomically and durably: the bytes land in
/// `<path>.tmp`, are fsynced and renamed over `path`, and the directory is
/// fsynced. A failure is an Internal status naming the step and the file,
/// and removes `<path>.tmp`.
Status AtomicWriteFile(const std::string& path, std::string_view data);

/// \brief Reads the whole file at `path`. `NotFound` when it is absent.
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace crowdjoin

#endif  // CROWDJOIN_COMMON_SERIALIZE_H_
