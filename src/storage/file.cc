#include "storage/file.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

namespace onion::storage {
namespace {

Status ErrnoStatus(const char* what, const std::string& path) {
  const int err = errno;
  if (err == ENOENT) return Status::NotFound(std::string(what) + ": " + path);
  return Status::Internal(std::string(what) + ": " + std::strerror(err) +
                          ": " + path);
}

}  // namespace

Result<File> File::OpenForRead(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("cannot open file", path);
  return File(fd, path);
}

Result<File> File::Create(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return ErrnoStatus("cannot create file", path);
  return File(fd, path);
}

File::~File() { Close(); }

File::File(File&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

void File::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status File::ReadvAt(uint64_t offset, struct iovec* iov, size_t iovcnt,
                     size_t max_bytes_per_call) const {
  size_t at = 0;          // first iovec not yet completely filled
  size_t first_done = 0;  // bytes of iov[at] already filled
  std::vector<struct iovec> window;
  while (at < iovcnt) {
    // Step over zero-length (or already-completed) iovecs: they absorb no
    // bytes, and a window of only empty entries would misread preadv's 0
    // return as EOF.
    if (iov[at].iov_len <= first_done) {
      ++at;
      first_done = 0;
      continue;
    }
    // One preadv call covers a window of iovecs: at most IOV_MAX of them,
    // the first one trimmed by what a previous short read already filled,
    // the whole window trimmed to max_bytes_per_call when set.
    const size_t want = std::min<size_t>(iovcnt - at, IOV_MAX);
    window.clear();
    size_t window_bytes = 0;
    for (size_t i = 0; i < want; ++i) {
      struct iovec entry = iov[at + i];
      if (i == 0) {
        entry.iov_base = static_cast<uint8_t*>(entry.iov_base) + first_done;
        entry.iov_len -= first_done;
      }
      if (max_bytes_per_call != 0 &&
          window_bytes + entry.iov_len >= max_bytes_per_call) {
        entry.iov_len = max_bytes_per_call - window_bytes;
        if (entry.iov_len > 0) window.push_back(entry);
        window_bytes = max_bytes_per_call;
        break;
      }
      window_bytes += entry.iov_len;
      window.push_back(entry);
    }
    const ssize_t r =
        ::preadv(fd_, window.data(), static_cast<int>(window.size()),
                 static_cast<off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("preadv failed", path_);
    }
    if (r == 0) {
      return Status::Corruption("read hit EOF at byte " +
                                std::to_string(offset) +
                                " before filling the request: " + path_);
    }
    // Consume r bytes across the original iovecs.
    offset += static_cast<uint64_t>(r);
    size_t remaining = static_cast<size_t>(r);
    while (remaining > 0) {
      const size_t room = iov[at].iov_len - first_done;
      if (remaining < room) {
        first_done += remaining;
        remaining = 0;
      } else {
        remaining -= room;
        ++at;
        first_done = 0;
      }
    }
  }
  return Status::OK();
}

Status File::ReadAt(uint64_t offset, void* data, size_t n) const {
  struct iovec iov;
  iov.iov_base = data;
  iov.iov_len = n;
  return ReadvAt(offset, &iov, 1);
}

Status File::WriteFull(int64_t offset, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  while (n > 0) {
    const ssize_t r =
        offset < 0 ? ::write(fd_, p, n)
                   : ::pwrite(fd_, p, n, static_cast<off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write failed", path_);
    }
    p += r;
    n -= static_cast<size_t>(r);
    if (offset >= 0) offset += r;
  }
  return Status::OK();
}

Status File::Append(const void* data, size_t n) {
  return WriteFull(-1, data, n);
}

Status File::WriteAt(uint64_t offset, const void* data, size_t n) {
  return WriteFull(static_cast<int64_t>(offset), data, n);
}

Status File::Sync() const {
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync failed", path_);
  return Status::OK();
}

Result<uint64_t> File::Size() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return ErrnoStatus("fstat failed", path_);
  return static_cast<uint64_t>(st.st_size);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  auto file = File::OpenForRead(path);
  if (!file.ok()) return file.status();
  auto size = file.value().Size();
  if (!size.ok()) return size.status();
  std::string bytes(size.value(), '\0');
  const Status status = file.value().ReadAt(0, bytes.data(), bytes.size());
  if (!status.ok()) return status;
  return bytes;
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp_path = path + ".tmp";
  Status status;
  {
    auto file = File::Create(tmp_path);
    if (!file.ok()) return file.status();
    status = file.value().Append(bytes.data(), bytes.size());
    if (status.ok()) status = file.value().Sync();
  }
  if (status.ok() && ::rename(tmp_path.c_str(), path.c_str()) != 0) {
    status = ErrnoStatus("cannot rename over", path);
  }
  if (!status.ok()) {
    std::remove(tmp_path.c_str());
    return status;
  }
  return SyncDir(DirOf(path));
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("cannot open directory for fsync", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("directory fsync failed", dir);
  return Status::OK();
}

std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace onion::storage
