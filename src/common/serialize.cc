#include "common/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace crowdjoin {

uint64_t Fingerprint64(std::string_view data) {
  uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a offset basis
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ull;  // FNV prime
  }
  return h;
}

Status AtomicWriteFile(const std::string& path, std::string_view data) {
  // The failure of `what` on `file`, with the errno it left.
  const auto io_error = [](const std::string& what, const std::string& file) {
    return Status::Internal(what + " " + file + ": " + std::strerror(errno));
  };
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return io_error("open", tmp);
  // The bytes are on disk before the rename can put them at `path`.
  Status status;
  if (std::fwrite(data.data(), 1, data.size(), file) != data.size() ||
      std::fflush(file) != 0) {
    status = io_error("write", tmp);
  } else if (::fsync(fileno(file)) != 0) {
    status = io_error("fsync", tmp);
  }
  if (std::fclose(file) != 0 && status.ok()) status = io_error("close", tmp);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = io_error("rename " + tmp + " ->", path);
  }
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  // The rename is durable once the directory is.
  const auto parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return io_error("open", dir);
  if (::fsync(dir_fd) != 0) status = io_error("fsync", dir);
  ::close(dir_fd);
  return status;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::Internal("read error on " + path);
  }
  return std::move(buf).str();
}

}  // namespace crowdjoin
