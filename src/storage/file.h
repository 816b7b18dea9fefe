// The one file layer under every engine file: segments, WALs, the batch
// journal (BATCHLOG), MANIFEST and CATALOG all read and write through a
// storage::File, which owns one POSIX file descriptor.
//
// There is one read loop (ReadvAt, a positioned vectored read; ReadAt is a
// one-iovec call into it) and one write loop (behind Append and WriteAt).
// Positioned reads never move the descriptor's file offset, so any number
// of threads may read one File concurrently without a lock — segment pages
// are read that way.
//
// POSIX gives no ordering guarantees between a file's data reaching disk
// and its directory entry reaching disk; a crash can leave a MANIFEST that
// names a segment whose bytes (or whose very directory entry) never made
// it. Every component that persists state therefore follows the same
// discipline:
//
//   1. write the new file, Sync() it,
//   2. SyncDir() its directory so the entry itself is durable,
//   3. only then publish a reference to it (a MANIFEST or CATALOG install
//      through WriteFileAtomic, which is tmp write + fsync + rename +
//      SyncDir).

#ifndef ONION_STORAGE_FILE_H_
#define ONION_STORAGE_FILE_H_

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"

namespace onion::storage {

/// Move-only owner of one open file descriptor. A default-constructed (or
/// moved-from, or Close()d) File holds no descriptor.
class File {
 public:
  /// Opens an existing file read-only; NotFound when it does not exist.
  static Result<File> OpenForRead(const std::string& path);
  /// Creates `path` write-only, truncating any existing file.
  static Result<File> Create(const std::string& path);

  File() = default;
  ~File();
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool is_open() const { return fd_ >= 0; }

  /// Fills every iovec completely, starting at byte `offset`, resuming
  /// across short reads (at page-cache boundaries, on signals, near EOF),
  /// retrying EINTR, and capping each call at IOV_MAX iovecs.
  /// `max_bytes_per_call` (0 = unlimited) bounds what one preadv call may
  /// return; tests use a small value to force the short-read resume path.
  /// Corruption when EOF arrives before the iovecs are full, Internal on
  /// I/O errors.
  Status ReadvAt(uint64_t offset, struct iovec* iov, size_t iovcnt,
                 size_t max_bytes_per_call = 0) const;
  /// Reads exactly `n` bytes at `offset` (one iovec through ReadvAt).
  Status ReadAt(uint64_t offset, void* data, size_t n) const;

  /// Writes all `n` bytes at the file position (the end of what was
  /// appended so far), resuming short writes and retrying EINTR.
  Status Append(const void* data, size_t n);
  /// Writes all `n` bytes at `offset` without moving the file position.
  Status WriteAt(uint64_t offset, const void* data, size_t n);

  /// Current size of the file in bytes.
  Result<uint64_t> Size() const;

  /// fsync(2): everything written so far reaches stable storage.
  Status Sync() const;

  /// Closes the descriptor (no-op when none is held).
  void Close();

 private:
  File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  /// The write loop; `offset` < 0 writes at the file position.
  Status WriteFull(int64_t offset, const void* data, size_t n);

  int fd_ = -1;
  std::string path_;  // for error messages
};

/// The whole contents of `path`; NotFound when the file does not exist.
Result<std::string> ReadFileBytes(const std::string& path);

/// Atomically replaces `path` with `bytes`: writes `path`.tmp, fsyncs it,
/// renames it over `path`, then fsyncs the directory. A crash leaves
/// either the old or the new contents, never a mix.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// Fsyncs the directory `dir` so that entries created, renamed, or removed
/// inside it are durable.
Status SyncDir(const std::string& dir);

/// The directory component of `path` ("." when there is none).
std::string DirOf(const std::string& path);

}  // namespace onion::storage

#endif  // ONION_STORAGE_FILE_H_
